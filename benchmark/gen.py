"""Seeded turbofan-layout input files for the benchmark.

The files follow the public 26-column text layout (unit, cycle, 3
operational settings, 21 sensors) plus the one-integer-per-line true-RUL
file. Nothing here imports ``rulens``: a change to the package cannot
change the benchmark's inputs.

Unit lengths come from a fixed ladder that the seed only shuffles, so every
seed gives the same amount of work; the seed changes the values (noise,
wear curve shape, true RUL). Operating setting 3 and sensors 1, 5, 10, 16,
18 and 19 are constant, as in the FD001 subset, so the default sensor drop
list leaves 18 features.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

N_SENSORS = 21
CONSTANT_SENSORS = {1: 518.67, 5: 14.62, 10: 1.3, 16: 0.03, 18: 2388.0, 19: 100.0}
INFORMATIVE = [s for s in range(1, N_SENSORS + 1) if s not in CONSTANT_SENSORS]
BASES = {sid: 100.0 + 17.0 * i for i, sid in enumerate(INFORMATIVE)}
AMPS = {sid: (8.0 + 0.9 * i) * (-1 if i % 3 == 0 else 1)
        for i, sid in enumerate(INFORMATIVE)}


def ladder(n: int, lo: int, hi: int) -> list[int]:
    """n integer lengths spread evenly over [lo, hi]."""
    if n == 1:
        return [lo]
    return [int(round(v)) for v in np.linspace(lo, hi, n)]


def unit_rows(rng: np.random.Generator, length: int, full_length: int,
              regime_shift: float) -> np.ndarray:
    """[length, 24] settings + sensors for the first `length` cycles of a
    unit that fails at cycle `full_length`."""
    frac = np.arange(1, length + 1) / full_length
    wear = frac ** rng.uniform(1.5, 3.0)
    rows = np.empty((length, 3 + N_SENSORS))
    rows[:, 0] = rng.normal(0.0, 0.002, length) + 0.4 * regime_shift
    rows[:, 1] = rng.normal(0.0, 0.0003, length) + 0.1 * regime_shift
    rows[:, 2] = 100.0
    for sid in range(1, N_SENSORS + 1):
        col = 2 + sid
        if sid in CONSTANT_SENSORS:
            rows[:, col] = CONSTANT_SENSORS[sid]
            continue
        drift = 2.5 * regime_shift * np.sign(AMPS[sid])
        rows[:, col] = (BASES[sid] + drift + AMPS[sid] * wear
                        + rng.normal(0.0, 0.3, length))
    return rows


def format_units(blocks: list[np.ndarray]) -> str:
    lines = []
    for uid, rows in enumerate(blocks, start=1):
        for cycle, row in enumerate(rows, start=1):
            lines.append(f"{uid} {cycle} " + " ".join(f"{v:.4f}" for v in row))
    return "\n".join(lines) + "\n"


def write_train(path: Path, rng: np.random.Generator,
                lengths: list[int]) -> list[int]:
    """Run-to-failure units with the given lengths, in seeded order."""
    order = [int(v) for v in rng.permutation(lengths)]
    blocks = [unit_rows(rng, n, n, 0.0) for n in order]
    path.write_text(format_units(blocks))
    return order


def write_test(paths: dict[str, Path], rng: np.random.Generator,
               kept: list[int], rul_range: tuple[int, int],
               shifts: dict[str, float]) -> tuple[list[int], list[int]]:
    """Truncated test units: unit k keeps kept[k] cycles (seeded order) and
    has a seeded true RUL. Each name in `shifts` gets its own file with the
    same units under that regime shift; paths["rul"] gets the true RULs."""
    order = [int(v) for v in rng.permutation(kept)]
    ruls = [int(r) for r in rng.integers(rul_range[0], rul_range[1] + 1,
                                         len(order))]
    for name, shift in shifts.items():
        unit_rng = np.random.default_rng(rng.integers(1 << 63))
        blocks = [unit_rows(unit_rng, n, n + r, shift)
                  for n, r in zip(order, ruls)]
        paths[name].write_text(format_units(blocks))
    paths["rul"].write_text("".join(f"{r}\n" for r in ruls))
    return order, ruls
