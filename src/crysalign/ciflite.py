"""CIF-lite text format, prompt-sentence grammar, and JSONL sample ingestion.

The CIF-lite block is the exact wire format between generator and evaluator:

    <CIF>P1
    <a> <b> <c>
    <alpha> <beta> <gamma>
    Element 1 x y z
    ...</CIF>

The writer is bit-exact: lengths at 6 decimals, angles at 4, fractional
coordinates at 8, round-half-away-from-zero.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal

from .structcore import (
    Composition,
    CrystalStructure,
    ELEMENT_SET,
    GeometryError,
    Lattice,
    MAX_SITES,
    Site,
)

CIF_OPEN = "<CIF>"
CIF_CLOSE = "</CIF>"


class ParseError(ValueError):
    """Positioned parse failure."""

    def __init__(self, message: str, line: int | None = None):
        self.reason = message
        self.line = line
        super().__init__(message if line is None else f"{message} (line {line})")


@dataclass(frozen=True)
class PromptConstraints:
    """Parsed user instruction: the conditioning context for generation."""

    formula: Composition | None = None
    spacegroup_number: int | None = None
    formation_energy_per_atom: float | None = None
    e_hull_target: float | None = None
    band_gap: float | None = None
    property_ranges: dict[str, tuple[float, float]] = field(default_factory=dict, hash=False)

    def __post_init__(self):
        if self.spacegroup_number is not None and not 1 <= self.spacegroup_number <= 230:
            raise ValueError(f"space-group number {self.spacegroup_number} outside [1, 230]")
        for key, (lo, hi) in self.property_ranges.items():
            if lo > hi:
                raise ValueError(f"range for {key} has L > R")


@dataclass(frozen=True)
class SampleRecord:
    prompt_id: str
    prompt_text: str
    response_text: str

    def __post_init__(self):
        if not self.prompt_id:
            raise ValueError("prompt_id must be non-empty")


# The writer's precisions (angles, lengths, coordinates) and their quanta.
_QUANTA = {places: Decimal(1).scaleb(-places) for places in (4, 6, 8)}


def _fixed(value: float, places: int) -> str:
    """Fixed-point formatting, round-half-away-from-zero (decimal-exact)."""
    return format(Decimal(repr(value)).quantize(_QUANTA[places], rounding=ROUND_HALF_UP),
                  f".{places}f")


def _integer(digits: str, line: int | None = None) -> int:
    """``int(digits)``, or a positioned ParseError past int's digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer of {len(digits)} characters is too long", line) from None


def parse_ciflite(text: str) -> CrystalStructure:
    """Parse the single <CIF>...</CIF> block in ``text``."""
    start = text.find(CIF_OPEN)
    if start < 0:
        raise ParseError("missing <CIF> marker")
    end = text.find(CIF_CLOSE, start)
    if end < 0:
        raise ParseError("missing </CIF> marker")
    if text.find(CIF_OPEN, start + 1) >= 0:
        raise ParseError("multiple <CIF> blocks")
    body = text[start + len(CIF_OPEN):end]
    base_line = text.count("\n", 0, start) + 1

    lines = [ln.strip() for ln in body.splitlines()]
    lines = [(i, ln) for i, ln in enumerate(lines) if ln]
    if not lines or lines[0][1] != "P1":
        raise ParseError("first token after <CIF> must be 'P1'", base_line)
    if len(lines) < 4:
        raise ParseError("block needs lengths, angles, and at least one site", base_line)

    def floats(entry, arity, what):
        idx, ln = entry
        parts = ln.split()
        if len(parts) != arity:
            raise ParseError(f"expected {arity} {what}, got {len(parts)}", base_line + idx)
        try:
            return [float(p) for p in parts]
        except ValueError:
            raise ParseError(f"non-numeric {what}", base_line + idx) from None

    a, b, c = floats(lines[1], 3, "lattice lengths")
    alpha, beta, gamma = floats(lines[2], 3, "lattice angles")
    try:
        lattice = Lattice(a, b, c, alpha, beta, gamma)
    except GeometryError as e:
        raise ParseError(str(e), base_line + lines[1][0]) from None

    if len(lines) - 3 > MAX_SITES:
        raise ParseError(f"block lists more than {MAX_SITES} sites",
                         base_line + lines[3 + MAX_SITES][0])
    sites = []
    for idx, ln in lines[3:]:
        parts = ln.split()
        if len(parts) != 5:
            raise ParseError(f"site line needs 'Element count x y z', got {len(parts)} fields",
                             base_line + idx)
        el, count_s, *coords_s = parts
        if el not in ELEMENT_SET:
            raise ParseError(f"unknown element symbol {el!r}", base_line + idx)
        if not re.fullmatch(r"\d+", count_s) or _integer(count_s, base_line + idx) < 1:
            raise ParseError(f"count must be a positive integer, got {count_s!r}", base_line + idx)
        if int(count_s) != 1:
            raise ParseError(f"explicit sites must have count 1, got {count_s}", base_line + idx)
        try:
            coords = tuple(float(x) for x in coords_s)
        except ValueError:
            raise ParseError("non-numeric coordinate", base_line + idx) from None
        try:
            sites.append(Site(el, coords))
        except GeometryError as e:
            raise ParseError(str(e), base_line + idx) from None
    return CrystalStructure(lattice, tuple(sites))


def write_ciflite(s: CrystalStructure) -> str:
    """Serialize at the declared fixed precision (deterministic, pure)."""
    out = [CIF_OPEN + "P1"]
    out.append(" ".join(_fixed(x, 6) for x in s.lattice.lengths))
    out.append(" ".join(_fixed(x, 4) for x in s.lattice.angles))
    for site in s.sites:
        coords = [_fixed(x, 8) for x in site.frac_coords]
        # Coordinates just below 1 render as 1.0 at 8 decimals and would
        # re-wrap to 0 on the next parse; fold them here.
        coords = " ".join("0.00000000" if c == "1.00000000" else c for c in coords)
        out.append(f"{site.element} 1 {coords}")
    return "\n".join(out) + CIF_CLOSE


_NUM = r"(-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
_PROMPT_PATTERNS = [
    ("formula", re.compile(r"The chemical formula is\s+([A-Za-z0-9()]+)\s*\.")),
    ("formation_energy_per_atom",
     re.compile(rf"The formation energy per atom is\s+{_NUM}\s*\.")),
    ("spacegroup_number", re.compile(rf"The space-group number is\s+{_NUM}\s*\.")),
    ("e_hull_target", re.compile(rf"The energy above the convex hull is\s+{_NUM}\s*\.")),
    ("band_gap", re.compile(rf"The band gap is\s+{_NUM}\s*\.")),
]
_RANGE_PATTERN = re.compile(rf"The ([a-z ]+?) is between\s+{_NUM}\s+and\s+{_NUM}\s*\.")


def parse_prompt(text: str) -> PromptConstraints:
    """Extract constraints from the templated prompt sentences.

    Unrecognized sentences are ignored; a recognized sentence with a
    malformed payload raises ParseError.
    """
    kwargs: dict = {}
    for key, pat in _PROMPT_PATTERNS:
        m = pat.search(text)
        if m is None:
            continue
        raw = m.group(1)
        if key == "formula":
            try:
                kwargs[key] = Composition.from_formula(raw)
            except ValueError as e:
                raise ParseError(str(e)) from None
        elif key == "spacegroup_number":
            if "." in raw or "e" in raw.lower():
                raise ParseError(f"space-group number must be an integer, got {raw!r}")
            kwargs[key] = _integer(raw)
            if not 1 <= kwargs[key] <= 230:
                raise ParseError(f"space-group number {raw} outside [1, 230]")
        else:
            kwargs[key] = float(raw)
    ranges: dict[str, tuple[float, float]] = {}
    for m in _RANGE_PATTERN.finditer(text):
        key = m.group(1).strip().replace(" ", "_")
        lo, hi = float(m.group(2)), float(m.group(3))
        if lo > hi:
            raise ParseError(f"range for {key} has L > R")
        ranges[key] = (lo, hi)
    return PromptConstraints(property_ranges=ranges, **kwargs)


def extract_response_parts(text: str) -> tuple[str | None, str | None]:
    """Split a model response into (trace_text, cif_text); either may be absent."""
    starts = [m.start() for m in re.finditer(re.escape(CIF_OPEN), text)]
    if len(starts) > 1:
        raise ParseError(f"multiple CIF blocks at offsets {starts}")
    if not starts:
        trace = text.strip()
        return (trace or None, None)
    start = starts[0]
    end = text.find(CIF_CLOSE, start)
    if end < 0:
        raise ParseError("missing </CIF> marker")
    trace = text[:start].strip()
    cif = text[start:end + len(CIF_CLOSE)]
    return (trace or None, cif)


def load_samples(path) -> list[SampleRecord]:
    """Load JSONL sample records, order-preserving; an error names the path
    and the line."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as e:
                # A JSONDecodeError carries its reason in ``msg``; an integer
                # too long to convert and a too deeply nested value raise
                # without one.
                raise ParseError(f"{path}: malformed JSON: {getattr(e, 'msg', e)}",
                                 lineno) from None
            if not isinstance(obj, dict):
                raise ParseError(f"{path}: sample must be a JSON object", lineno)
            for key in ("prompt_id", "prompt_text", "response_text"):
                if key not in obj:
                    raise ParseError(f"{path}: missing key {key!r}", lineno)
            try:
                records.append(SampleRecord(
                    prompt_id=str(obj["prompt_id"]),
                    prompt_text=str(obj["prompt_text"]),
                    response_text=str(obj["response_text"]),
                ))
            except ValueError as e:
                raise ParseError(f"{path}: {e}", lineno) from None
    return records
