"""Batch evaluation pipeline: parse, check, score, aggregate, report.

Each task is a chunk of consecutive samples: the whole batch with one
worker, else a quarter of each worker's share. Every sample of it is parsed and checked
(validity, space-group detection, trace consistency), then the structurally
valid cells relax together, each within its own ``timeout_s`` budget, and
each gets its energy, hull distance and reward. A row depends on its own
sample alone, not on the chunk it ran in. With more than one worker the
tasks run on a process pool that is kept for the life of the process and
reused by every batch with the same worker count; results come back in
sample order, so output is identical for any worker count. The batch
metrics, computed in this process, read only the finished rows and the
match record (``metrics.MatchRecord``) that each row's checks build: no
structure, and no computation on one, reaches them.

One rule, in ``_check_sample``, sets a row's status: no CIF block is
``missing_cif``, a ``ParseError`` before the validity report a
``parse_error`` with its message, a ``DetectionError`` only leaves
``spacegroup_detected`` empty, and any other raise is a ``check_error``
that keeps every field found before it. The match record is built before
the report, so a raise there leaves the row without a report; a row
without one stays out of the batch metrics. A caught fault's ``error``, there
or in the hull stage, is ``timeout`` or ``<type>: <message>`` (``_reason``).

The workers fork when the pool is made, so they do not see state this
process changes afterwards: a monkeypatch or a replaced table reaches the
workers only through a pool made after it (``_drop_pool`` discards the
kept one).
"""

from __future__ import annotations

import configparser
import csv
import io
import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import ciflite, energetics, metrics, rewards, traces, validity
from .structcore import CrystalStructure
from .symmetry import DetectionError, detect_spacegroup
from .symmetry.groups import signature_index

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INFRA = 3


class InputError(ValueError):
    """Unreadable or malformed pipeline input."""


@dataclass(frozen=True)
class RunConfig:
    samples_path: str
    output_dir: str = "out"
    reference_structures_path: str | None = None
    worker_count: int = 1
    timeout_s: float = 30.0
    relax_before_hull: bool = True
    symmetry_tol: float = 1e-3
    alpha_validity: float = 1.0
    alpha_stability: float = 10.0
    e0: float = 1.0
    length_tol: float = 0.05
    angle_tol: float = 5.0
    site_tol: float = 0.1

    def __post_init__(self):
        if self.worker_count < 1:
            raise InputError("worker_count must be >= 1")
        for name in ("symmetry_tol", "e0"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise InputError(f"{name} must be a positive finite number")
        try:
            self.match_config()
            self.weights()
        except ValueError as e:
            raise InputError(str(e)) from None
        if not self.timeout_s >= 0:                     # NaN fails too
            raise InputError("timeout_s must be a number >= 0")
        if not os.path.exists(self.samples_path):
            raise InputError(f"samples file not found: {self.samples_path}")
        if (self.reference_structures_path is not None
                and not os.path.exists(self.reference_structures_path)):
            raise InputError(
                f"reference file not found: {self.reference_structures_path}"
            )

    def weights(self) -> rewards.RewardWeights:
        return rewards.RewardWeights(self.alpha_validity, self.alpha_stability)

    def match_config(self) -> metrics.MatchConfig:
        return metrics.MatchConfig(self.length_tol, self.angle_tol, self.site_tol)


def load_config(path: str, overrides: dict | None = None) -> RunConfig:
    """Flat sectioned key=value file; explicit overrides win over file keys."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise InputError(f"config file not found: {path}")
    merged: dict = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            merged[key] = raw
    casts = {f.name: f.type for f in fields(RunConfig)}
    kwargs: dict = {}
    for key, raw in merged.items():
        if key not in casts:
            raise InputError(f"unknown config key: {key}")
        kind = casts[key]
        if kind in ("int", "float"):
            try:
                kwargs[key] = int(raw) if kind == "int" else float(raw)
            except ValueError:
                noun = "an integer" if kind == "int" else "a number"
                raise InputError(f"{key} must be {noun}, got {raw!r}") from None
        elif kind == "bool":
            if raw.lower() not in parser.BOOLEAN_STATES:
                raise InputError(f"{key} must be a boolean, got {raw!r}")
            kwargs[key] = parser.BOOLEAN_STATES[raw.lower()]
        elif kind.startswith("str | None"):
            kwargs[key] = raw or None
        else:
            kwargs[key] = raw
    for key, value in (overrides or {}).items():
        if value is not None:
            kwargs[key] = value
    if "samples_path" not in kwargs:
        raise InputError("config must set samples_path")
    return RunConfig(**kwargs)


@dataclass(frozen=True)
class EvaluationRow:
    index: int
    prompt_id: str
    parse_status: str                  # "ok" or a failure kind
    structural: int = 0
    chemical: int = 0
    composition_match: int = 0
    spacegroup_detected: int | None = None
    spacegroup_match: int | None = None
    e_hull: float | None = None
    r_target: float = 0.0
    site_match: int | None = None
    volume_rel_diff: float | None = None
    bond_rel_diff: float | None = None
    formula: str = ""
    error: str = ""


def _evaluate_chunk(args) -> list[tuple[EvaluationRow, metrics.MatchRecord | None]]:
    """The samples of one task, each to its finished row and its match
    record for the batch metrics (``None`` when the row has no validity
    report): every sample's checks, then one relaxation of the chunk's
    structurally valid cells, then each hull distance and reward. A row
    depends on its own sample alone (``energetics.relax_positions``)."""
    items, config = args
    checked = [_check_sample(index, rec, config) for index, rec in items]
    hulls = iter(_hull_distances([s for _, s, report, _ in checked
                                  if s is not None and report.structural], config))
    results = []
    for found, s, report, record in checked:
        if s is not None:
            e_hull, hull_error = next(hulls) if report.structural else (None, "")
            breakdown = rewards.combined_reward(report, e_hull, config.weights(), config.e0)
            found.setdefault("error", hull_error)
            found.update(structural=int(report.structural), chemical=int(report.chemical),
                         composition_match=int(report.composition_match), e_hull=e_hull,
                         r_target=breakdown.r_target, formula=s.formula)
        results.append((EvaluationRow(**found), record))
    return results


def _check_sample(index, rec, config):
    """One sample's parse, match record, validity, detection and trace
    checks: the row's fields found so far, then the structure, its validity
    report and its match record, all ``None`` when the row has no report.
    Every raise becomes the row's status and ``error`` here, by the rule in
    the module docstring."""
    found: dict = {"index": index, "prompt_id": rec.prompt_id, "parse_status": "ok"}
    s = report = record = None
    try:
        constraints = ciflite.parse_prompt(rec.prompt_text)
        trace_text, cif_text = ciflite.extract_response_parts(rec.response_text)
        if cif_text is None:
            return dict(found, parse_status="missing_cif"), None, None, None
        s = ciflite.parse_ciflite(cif_text)
        record = metrics.MatchRecord.from_structure(s)
        report = validity.build_report(s, constraints.formula,
                                       validity.OxidationTable.load_default())
        try:
            sym = detect_spacegroup(s, config.symmetry_tol)
            found["spacegroup_detected"] = sym.number
            if constraints.spacegroup_number is not None:
                found["spacegroup_match"] = int(sym.number == constraints.spacegroup_number)
        except DetectionError:
            sym = None
        if trace_text:
            trace = traces.parse_trace(trace_text)
            if sym is not None:
                cons = traces.trace_consistency(trace, s, sym)
                found["site_match"] = int(cons.site_match)
                found["volume_rel_diff"] = cons.volume_rel_diff
                found["bond_rel_diff"] = cons.bond_rel_diff
    except Exception as e:
        parsing = report is None and isinstance(e, ciflite.ParseError)
        found["parse_status"] = "parse_error" if parsing else "check_error"
        found["error"] = str(e) if parsing else _reason(e)
    if report is None:
        return found, None, None, None
    return found, s, report, record


def _reason(e: Exception) -> str:
    """A caught fault as its row's ``error``: no traceback, no path."""
    return "timeout" if isinstance(e, TimeoutError) else f"{type(e).__name__}: {e}"


def _hull_distances(structures: list[CrystalStructure],
                    config: RunConfig) -> list[tuple[float | None, str]]:
    """Each structure's energy above hull, or ``None`` and the reason. With
    ``relax_before_hull`` all of them relax first, together, each within a
    budget of ``timeout_s``. Each composition's hull is solved once, for
    the first structure there; a solve that raises is not kept, so the next
    structure there solves it again."""
    backend = energetics.PairPotentialBackend.load_default()
    if config.relax_before_hull:
        structures = energetics.relax_positions(backend, structures, budget_s=config.timeout_s)
    hulls = {}                      # atomic fractions -> HullResult
    out = []
    for s in structures:
        try:
            if isinstance(s, Exception):
                raise s
            ef = energetics.formation_energy(backend, s)
            key = tuple(s.composition().fractions().items())
            if key not in hulls:
                hulls[key] = energetics.energy_above_hull(
                    energetics.PhaseEntry(s.composition(), ef), energetics.load_reference_phases())
            out.append((max(ef - hulls[key].energy, 0.0), ""))
        except Exception as e:
            out.append((None, _reason(e)))
    return out


# The kept pool (its workers fork on the first batch it runs) and its
# worker count.
_pool: ProcessPoolExecutor | None = None
_pool_workers = 0


def _drop_pool() -> None:
    """Shut the kept pool down; the next multi-worker batch forks a new one."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(cancel_futures=True)
    _pool, _pool_workers = None, 0


def _pool_map(fn, items, worker_count):
    # Load the tables (each loader caches its result per process) and, for
    # a pool, the signature index in this process, so the workers of a new
    # pool inherit them instead of each loading its own.
    global _pool, _pool_workers
    validity.OxidationTable.load_default()
    energetics.PairPotentialBackend.load_default()
    energetics.load_reference_phases()
    if worker_count == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    signature_index()
    for attempt in (1, 2):
        if _pool is None or _pool_workers != worker_count:
            _drop_pool()
            _pool, _pool_workers = ProcessPoolExecutor(max_workers=worker_count), worker_count
        try:
            return list(_pool.map(fn, items))
        except BrokenProcessPool:
            # A worker died, between batches or during this one: the batch
            # runs once more on a fresh pool, and a second break is raised.
            _drop_pool()
            if attempt == 2:
                raise


def run_evaluation(config: RunConfig) -> tuple[metrics.MetricReport, list[EvaluationRow]]:
    path = config.samples_path
    try:
        samples = ciflite.load_samples(path)
        path = config.reference_structures_path
        reference = _load_reference(path)
    except UnicodeDecodeError as e:
        raise InputError(f"{path} is not UTF-8: {e}") from e
    except (OSError, ciflite.ParseError) as e:
        raise InputError(str(e)) from e

    # One task per chunk of samples, a quarter of each worker's share or the
    # whole batch with one worker; a chunk's structures relax together.
    items = list(enumerate(samples))
    size = max(1, len(items) if config.worker_count == 1
               else len(items) // (config.worker_count * 4))
    chunks = [(items[lo:lo + size], config) for lo in range(0, len(items), size)]
    results = [result for chunk in _pool_map(_evaluate_chunk, chunks, config.worker_count)
               for result in chunk]
    rows = [row for row, _ in results]
    scored = [(record, row.e_hull) for row, record in results if record is not None]
    report = _build_metric_report(rows, scored, reference, config.match_config())
    return report, rows


def _load_reference(path: str | None) -> list[metrics.MatchRecord]:
    """The match record of each CIF block of a file (a reference set, or a
    ``crysalign metrics`` batch); none without a path. A block that does not
    parse is a ``ParseError`` at its file line, and one whose record cannot
    be built an ``InputError`` naming the file and the block's first line."""
    if path is None:
        return []
    records = []
    text = Path(path).read_text(encoding="utf-8")
    lines_before = 0
    *blocks, tail = text.split(ciflite.CIF_CLOSE)
    for chunk in blocks:
        if ciflite.CIF_OPEN in chunk:
            try:
                s = ciflite.parse_ciflite(chunk + ciflite.CIF_CLOSE)
            except ciflite.ParseError as e:
                # The chunk's line numbers count from its own start.
                line = None if e.line is None else lines_before + e.line
                raise ciflite.ParseError(f"{path}: {e.reason}", line) from None
            try:
                records.append(metrics.MatchRecord.from_structure(s))
            except Exception as e:
                line = lines_before + chunk.count("\n", 0, chunk.index(ciflite.CIF_OPEN)) + 1
                raise InputError(f"{path}: block at line {line}: {_reason(e)}") from e
        lines_before += chunk.count("\n")
    if ciflite.CIF_OPEN in tail:
        line = lines_before + tail.count("\n", 0, tail.index(ciflite.CIF_OPEN)) + 1
        raise ciflite.ParseError(f"{path}: missing {ciflite.CIF_CLOSE} marker", line)
    return records


def _build_metric_report(rows, scored, reference, match_cfg):
    """Batch metrics; ``scored`` holds (match record, e_hull) for each row
    that has a validity report, and ``reference`` the reference records."""
    entries = []

    def add(name, values):
        if values:
            entries.append(replace(metrics.aggregate(values), name=name))
        else:
            entries.append(metrics.MetricValue(name, 0.0, 0.0, 0, low_count=True))

    add("structural_validity", [bool(r.structural) for r in rows])
    add("chemical_validity", [bool(r.chemical) for r in rows])
    add("composition_match", [bool(r.composition_match) for r in rows])
    add("spacegroup_match", [bool(r.spacegroup_match) for r in rows
                             if r.spacegroup_match is not None])
    known_hulls = [r.e_hull for r in rows if r.e_hull is not None]
    add("mean_e_hull", known_hulls)
    add("stability_rate", [r.e_hull is not None and energetics.is_stable(r.e_hull)
                           for r in rows])
    add("mean_r_target", [r.r_target for r in rows])
    m = len(scored)
    if scored:
        records, e_hulls = zip(*scored)
        uniq, nov, sun = metrics.discovery_rates(list(records), list(e_hulls),
                                                 reference, match_cfg)
    else:
        uniq = nov = sun = 0.0
    for name, value in (("uniqueness", uniq), ("novelty", nov), ("sun_ratio", sun)):
        entries.append(metrics.MetricValue(name, value, 0.0, m, low_count=m <= 1))
    return metrics.MetricReport(tuple(entries))


def rows_to_csv(rows: list[EvaluationRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    names = [f.name for f in fields(EvaluationRow)]
    writer.writerow(names)
    # None is written as an empty field, a float as its repr.
    writer.writerows([getattr(r, name) for name in names] for r in rows)
    return buf.getvalue()


def emit_report(report: metrics.MetricReport, rows: list[EvaluationRow],
                outdir: str) -> dict[str, str]:
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "metrics.csv": report.to_csv(),
        "metrics.md": report.to_markdown(),
        "samples.csv": rows_to_csv(rows),
    }
    out = {}
    for name, content in paths.items():
        path = os.path.join(outdir, name)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
        out[name] = path
    return out
