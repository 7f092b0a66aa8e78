#!/usr/bin/env bash
# Regenerates every table/figure at sizes tuned for a small single machine.
# Full-fidelity runs (all 22 datasets, 10 seeds, 500 epochs, --scale full)
# use the same commands with the flags from the paper — see README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
EXP=target/release/experiments
RUN() { echo "### $*" >&2; "$EXP" "$@" --json; }

# Cheap structural tables first.
RUN table1
RUN table3

# Effectiveness (Tables 5/10): small datasets covering both regimes.
RUN table5  --datasets chameleon,minesweeper,roman-empire --seeds 2 --epochs 25 --hidden 32
RUN table10 --datasets chameleon,minesweeper --seeds 2 --epochs 20 --hidden 32

# Signal regression (Table 7).
RUN table7 --seeds 1 --epochs 80

# Efficiency (Tables 9/11) on propagation-heavy medium/large graphs.
RUN table9  --datasets genius,twitch-gamer --filters Identity,Linear,PPR,Monomial,VarMonomial,Chebyshev,Bernstein,Jacobi,OptBasis,FiGURe --epochs 6 --hidden 32
RUN table11 --datasets genius,twitch-gamer --filters Identity,Linear,PPR,Monomial,VarMonomial,Chebyshev,Bernstein,Jacobi,OptBasis,FiGURe --epochs 6 --hidden 32

# Stage breakdown (Figure 2).
RUN fig2 --datasets twitch-gamer --filters PPR,Monomial,Chebyshev,Jacobi --epochs 6 --hidden 32

# Scale series (Figure 3).
RUN fig3 --datasets cora,pubmed,flickr --filters Identity,Impulse,PPR,VarMonomial,Chebyshev --epochs 10 --hidden 32

# Seed variance (Figure 4).
RUN fig4 --datasets cora --filters Impulse,PPR,Monomial,Chebyshev --seeds 5 --epochs 12 --hidden 32

# Hardware sensitivity (Figure 5) on a propagation-heavy graph.
RUN fig5 --datasets twitch-gamer --epochs 8 --hidden 32

# Link prediction (Figure 6) on a low-dimensional medium graph.
RUN fig6 --datasets genius --filters Identity,PPR,Monomial,Chebyshev,Jacobi --epochs 8 --hidden 32

# Hop sweep (Figure 7).
RUN fig7 --datasets chameleon,roman-empire --epochs 10 --hidden 32

# t-SNE cluster quality (Figure 8).
RUN fig8 --datasets cora,chameleon

# Degree gaps (Figures 9/10).
RUN fig9  --datasets cora,chameleon --filters Identity,Impulse,PPR,VarMonomial,Jacobi,FAGNN --epochs 12 --hidden 32
RUN fig10 --datasets chameleon,roman-empire --epochs 10 --hidden 32

# Baselines (Table 6): medium graph + an OOM-provoking budget on pokec.
RUN table6 --datasets ogbn-arxiv --epochs 8 --hidden 32 --device-budget-mb 512
RUN table6 --datasets pokec --epochs 8 --hidden 32 --device-budget-mb 256

# Framework ablations (beyond the paper's tables).
RUN ablation --datasets cora,roman-empire --epochs 10 --hidden 32

echo "all experiments done" >&2
