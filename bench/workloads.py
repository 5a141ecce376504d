"""Workload definitions and seeded inputs.

Each workload is one CLI command.  A run feeds it inputs made from the
seed, and the program receives only those inputs:

* presentation workloads get four Tietze variants, written as
  presentation files.  A variant renames generator j to old generator
  perm[j]^signs[j] (``presentation.permuted_inverted``).  Which
  generators are inverted changes a pass's cost by up to 2x, so the four
  sign vectors form a balanced design (``variant_moves``): every
  generator, and for two generators every sign pattern, is covered
  equally in each run, and a run's mean cost does not hinge on which
  generators one seed happens to invert.  Seed 0 starts with the corpus
  file as shipped;
* ``higgs-koszul`` gets the eight Higgs sweep seeds 8s to 8s+7.  With
  four sweep seeds a run, a run's time hung on its seed by up to 15 %,
  the same on a repeat; eight seeds average that out better.

Every oracle in ``oracle`` is invariant under these moves.
"""

from __future__ import annotations

import random
import shutil
import sys
from dataclasses import dataclass
from functools import partial

import oracle

HIGGS_INPUTS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str | None      # presentation under corpus/, or None
    command: tuple          # CLI arguments; "{input}" is the input file
    check: object           # report results -> list of errors


WORKLOADS = {w.name: w for w in (
    Workload("scan-sparse", "z4", ("analyze", "{input}", "--K", "8"),
             partial(oracle.check_isolated_trivial, rank=4, max_order=8)),
    Workload("scan-dense", "surface3", ("analyze", "{input}", "--K", "3"),
             partial(oracle.check_surface, genus=3, max_order=3)),
    Workload("cover-rescan", "trefoil", ("thm4", "{input}", "--N", "2",
                                         "--K", "7"),
             partial(oracle.check_trefoil_cover, max_order=7)),
    Workload("higgs-koszul", None, ("higgs", "verify-thm3", "--n", "2",
                                    "--samples", "12", "--seed", "{seed}"),
             partial(oracle.check_higgs, n=2, samples=12)),
)}


def variant_moves(generators, seed):
    """(perm, signs) of the run's four inputs: sigma, -sigma, sigma*tau
    and -sigma*tau, where tau inverts half of the generators."""
    rng = random.Random(seed)
    perm, sigma = list(range(generators)), [1] * generators
    if seed:
        rng.shuffle(perm)
        sigma = [rng.choice((1, -1)) for _ in range(generators)]
    tau = [1] * (generators - generators // 2) + [-1] * (generators // 2)
    rng.shuffle(tau)
    moves = []
    for flips in ([1] * generators, tau):
        signs = [s * f for s, f in zip(sigma, flips)]
        moves += [(perm, signs), (perm, [-s for s in signs])]
    return moves


def make_inputs(workload, seed, root, workdir):
    """[(label, CLI argv)] for one run; files land in workdir."""
    if workload.corpus is None:
        return [(f"seed{s}", [a.replace("{seed}", str(s))
                              for a in workload.command])
                for s in range(HIGGS_INPUTS * seed, HIGGS_INPUTS * (seed + 1))]
    sys.path.insert(0, str(root / "src"))
    from jumploci.presentation import permuted_inverted
    from jumploci.presfile import format_presentation, load_presentation

    shipped = root / "corpus" / f"{workload.corpus}.pres"
    base = load_presentation(shipped)
    inputs = []
    for i, (perm, signs) in enumerate(variant_moves(base.generator_count, seed)):
        name = f"v{i}.pres"
        if perm == sorted(perm) and min(signs) == 1:
            shutil.copyfile(shipped, workdir / name)
        else:
            (workdir / name).write_text(
                format_presentation(permuted_inverted(base, perm, signs)),
                encoding="utf-8")
        inputs.append((name[:-5], [a.replace("{input}", name)
                                   for a in workload.command]))
    return inputs
