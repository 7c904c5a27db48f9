"""Run every experiment and collect the results."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.experiments import (
    fig2_validation,
    fig3_throughput,
    fig4_memory,
    fig5_reuse,
)


@dataclass(frozen=True)
class AllResults:
    """Results of the paper's four evaluation experiments."""

    fig2: fig2_validation.Fig2Result
    fig3: fig3_throughput.Fig3Result
    fig4: fig4_memory.Fig4Result
    fig5: fig5_reuse.Fig5Result

    @property
    def claims(self) -> Dict[str, bool]:
        return {
            "fig2 (0.4% avg energy error)": self.fig2.meets_paper_claim,
            "fig3 (VGG16 near ideal; AlexNet degraded)":
                self.fig3.meets_paper_claims,
            "fig4 (DRAM dominant; batching+fusion ~3x)":
                self.fig4.meets_paper_claims,
            "fig5 (reuse cuts converter/accelerator energy)":
                self.fig5.meets_paper_claims,
        }

    def report(self) -> str:
        sections = [
            self.fig2.table(),
            self.fig3.table(),
            self.fig4.table(),
            self.fig5.table(),
            "Claim summary:",
        ]
        for claim, met in self.claims.items():
            sections.append(f"  [{'ok' if met else 'MISS'}] {claim}")
        return ("\n\n" + "=" * 72 + "\n\n").join(sections[:4]) \
            + "\n\n" + "\n".join(sections[4:])


def run_all(use_mapper: bool = False, workers: int = 1,
            cache=None) -> AllResults:
    """Run the paper's full evaluation (a few seconds).

    ``workers``/``cache`` parallelize and memoize the sweep-shaped
    experiments (Figs. 4 and 5) through the engine.
    """
    return AllResults(
        fig2=fig2_validation.run(),
        fig3=fig3_throughput.run(use_mapper=use_mapper),
        fig4=fig4_memory.run(use_mapper=use_mapper, workers=workers,
                             cache=cache),
        fig5=fig5_reuse.run(use_mapper=use_mapper, workers=workers,
                            cache=cache),
    )
