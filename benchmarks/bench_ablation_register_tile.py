"""Ablation: register-tile geometry of the stencil basic block (Sec. 4.3).

The paper's generator "finds [the] optimal solution by iterating over all
possible values for rx and ry".  This ablation quantifies why that search
matters: it sweeps tile shapes for each Table 1 kernel size and reports
instructions per output element, confirming (a) tall tiles amortize input
loads (the Fig. 7 reuse), and (b) the optimizer's pick is the sweep's
minimum.
"""

from repro.analysis.reporting import format_table
from repro.data.tables import TABLE1_CONVS
from repro.stencil.basic_block import TileChoice, optimize_register_tile


def sweep():
    rows = []
    for spec in TABLE1_CONVS:
        fy = fx = spec.fy
        naive = TileChoice(fy, fx, 1, 1).instructions_per_output
        wide = TileChoice(fy, fx, 1, 14).instructions_per_output
        tall = TileChoice(fy, fx, 14, 1).instructions_per_output
        best = optimize_register_tile(fy, fx)
        rows.append(
            {
                "kernel": f"{fy}x{fx}",
                "naive_1x1": naive,
                "wide_1x14": wide,
                "tall_14x1": tall,
                "best": best.instructions_per_output,
                "best_tile": f"{best.ry}x{best.rx}",
            }
        )
    return rows


def test_ablation_register_tile(benchmark, show):
    rows = benchmark(sweep)
    show(format_table(
        ["kernel", "1x1 tile", "wide 1x14", "tall 14x1", "optimized",
         "chosen tile"],
        [[r["kernel"], f"{r['naive_1x1']:.3f}", f"{r['wide_1x14']:.3f}",
          f"{r['tall_14x1']:.3f}", f"{r['best']:.3f}", r["best_tile"]]
         for r in rows],
        title="Ablation: stencil register tile (vector instructions per output)",
    ))
    for r in rows:
        # The optimizer never loses to the fixed strategies.
        assert r["best"] <= min(r["naive_1x1"], r["wide_1x14"], r["tall_14x1"]) + 1e-9
        # Tall tiles beat the naive tile whenever the kernel has height.
        if r["kernel"] != "1x1":
            assert r["tall_14x1"] < r["naive_1x1"]
