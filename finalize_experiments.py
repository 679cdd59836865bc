#!/usr/bin/env python3
"""Splices measured bench tables into EXPERIMENTS.md after a bench run.

Reads a local bench_output.txt (each binary's stdout under a
`### build/bench/<name>` header; see EXPERIMENTS.md, "Measured outputs").
"""
import re, sys

bench = open('bench_output.txt', errors='replace').read()

def section(binary_name):
    pat = rf"### build/bench/{binary_name}\n(.*?)(?=\n### build/bench/|\Z)"
    m = re.search(pat, bench, re.S)
    return m.group(1).strip() if m else "(missing)"

blocks = {
    'fig1_datasets': 'Fig. 1',
    'table1_attack_distance': 'Table I',
    'fig2_stopsign_attacks': 'Fig. 2',
    'table2_image_processing': 'Table II',
    'table3_adv_training': 'Table III',
    'table4_contrastive': 'Table IV',
    'table5_diffusion': 'Table V',
    'acc_closed_loop': 'Closed-loop ACC',
    'ablation_future_work': 'Ablations',
}

out = ["\n## Appendix: measured outputs\n\n"
       "Verbatim bench stdout, spliced in by `finalize_experiments.py`.\n"]
for binary, label in blocks.items():
    out.append(f"\n### {label} — `bench/{binary}`\n\n```\n{section(binary)}\n```\n")

md = open('EXPERIMENTS.md').read()
marker = "\n## Appendix: measured outputs"
if marker in md:
    md = md[:md.index(marker)]
open('EXPERIMENTS.md', 'w').write(md + "".join(out))
print("EXPERIMENTS.md appendix updated")
