"""Seeded startup-schema CSV, the tabular input of the benchmark workloads.

The header is that of the startup-investments export; the program sees only
the generated file.
"""

from __future__ import annotations

import csv
import math

import numpy as np

HEADER = (
    "status,market,funding_total_usd,funding_rounds,seed,venture,"
    "equity_crowdfunding,convertible_note,debt_financing,angel,grant,"
    "private_equity,round_A,round_B,round_C,round_D,founded_at,"
    "first_funding_at,last_funding_at"
).split(",")

_MARKETS = ("Software", "Biotechnology", "Web", "Games", "Mobile", "Health Care",
            "E-Commerce", "Enterprise Software", "Advertising", "Hardware")
# Round types besides the lettered rounds; later entries go to stronger companies.
_ROUND_TYPES = ("seed", "angel", "grant", "equity_crowdfunding", "convertible_note",
                "debt_financing", "venture", "private_equity")
_DROPPED_STATUSES = ("operating", "Operating", "running", "")


def _money(rng, value: float) -> str:
    """A dollar amount, sometimes written as "$1,234", sometimes blank."""
    roll = rng.random()
    if roll < 0.03:
        return ""
    if roll < 0.05:
        return "-"
    if roll < 0.15:
        return f"${int(value):,}"
    return str(int(value))


def _date(rng, day: int) -> str:
    d = np.datetime64("1990-01-01") + np.timedelta64(int(day), "D")
    y, m, dd = str(d).split("-")
    return f"{m}/{dd}/{y}" if rng.random() < 0.1 else f"{y}-{m}-{dd}"


def write_startup_csv(path, rows: int, seed: int) -> None:
    """Write ``rows`` companies whose outcome follows a latent quality score.

    About a fifth carry a status the filter drops, and a few percent have a
    blank total or founding date, which the feature pipeline drops too.
    """
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(HEADER)
        for _ in range(rows):
            z = rng.normal()
            exit_ = rng.random() < 1.0 / (1.0 + math.exp(-3.5 * z + 0.3))
            if rng.random() < 0.2:
                status = _DROPPED_STATUSES[rng.integers(len(_DROPPED_STATUSES))]
            elif exit_:
                status = "ipo" if rng.random() < 0.1 else "acquired"
            else:
                status = "closed"
            market = _MARKETS[min(len(_MARKETS) - 1,
                                  int(abs(rng.normal(2.0 * (z > 0), 2.5))))]
            n_rounds = 1 + int(rng.poisson(max(0.2, 1.3 + 0.7 * z)))
            total = math.exp(13.5 + 0.9 * z + rng.normal(0.0, 0.6))
            amounts = dict.fromkeys(HEADER[4:16], 0.0)
            shares = rng.dirichlet(np.ones(n_rounds))
            for share in shares:
                rank = z + rng.normal(0.0, 1.0)
                if rank > 0.8 and rng.random() < 0.6:
                    name = ("round_A", "round_B", "round_C", "round_D")[
                        min(3, int(rng.integers(0, 1 + n_rounds)))]
                else:
                    pos = int(np.clip((rank + 2.0) / 4.0 * len(_ROUND_TYPES), 0,
                                      len(_ROUND_TYPES) - 1))
                    name = _ROUND_TYPES[pos]
                amounts[name] += share * total
            founded = int(rng.integers(3650, 8400))
            first = founded + int(rng.exponential(max(60.0, 700.0 - 250.0 * z)))
            last = first + int(sum(rng.exponential(max(30.0, 250.0 + 120.0 * z))
                                   for _ in range(n_rounds - 1)))
            out.writerow(
                [status, market, _money(rng, total), str(n_rounds)]
                + [_money(rng, amounts[c]) if amounts[c] else
                   ("" if rng.random() < 0.05 else "0") for c in HEADER[4:16]]
                + ["" if rng.random() < 0.03 else _date(rng, founded),
                   _date(rng, first), _date(rng, last)]
            )
