"""The synth stage: a planted-signal market and its news, written as the
raw inputs of ingest and the news stages.
"""

from __future__ import annotations

from .artifacts import OutDir
from .config import SyntheticSpec
from .synth import generate, write_market


def cmd_synth(cfg, out: OutDir, args):
    market = generate(SyntheticSpec(seed=cfg["seed"], **cfg["synth"]))
    for path in write_market(market, out.path).values():
        out.write(path.name)
    return {"n_articles": len(market.articles)}
