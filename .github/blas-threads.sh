#!/bin/sh
# Runs the same gutgraph commands at one and at two BLAS threads and
# compares every output byte for byte; config.json is left out, since it
# echoes its own output directory. The shapes reach past the small cohort
# of the determinism step: at N=120 and N=960 the GEMMs are large enough
# for the BLAS to split them over threads.
# Usage: blas-threads.sh OUT_DIR
set -eu
d=$1
gutgraph synth --n-per-class 20 --seed 4 --out-dir "$d/data"
gutgraph synth --n-per-class 60 --seed 0 --out-dir "$d/n120"
gutgraph synth --n-per-class 480 --seed 0 --out-dir "$d/n960"
for t in 1 2; do
  # OpenBLAS reads the first, Accelerate (numpy on macOS) the second
  export OPENBLAS_NUM_THREADS=$t VECLIB_MAXIMUM_THREADS=$t
  o="$d/threads$t"
  table="$d/data/abundance.tsv"
  labels="$d/data/labels.tsv"
  gutgraph build-graphs --table "$table" --out-dir "$o/graphs"
  gutgraph train --table "$table" --epochs 3 --out-dir "$o/run"
  gutgraph train --table "$table" --epochs 3 --gcn-layers 1 --out-dir "$o/layers1"
  gutgraph train --table "$table" --epochs 3 --embed-dim 16 --gcn-layers 2 \
    --out-dir "$o/dim16"
  gutgraph train --table "$table" --epochs 3 --clip-norm 1e6 --out-dir "$o/noclip"
  gutgraph train --table "$table" --epochs 3 --no-attention --out-dir "$o/noattention"
  gutgraph train --table "$table" --epochs 3 --no-adversarial --no-two-stage-summary \
    --out-dir "$o/nodisc"
  gutgraph evaluate --table "$table" --labels "$labels" --epochs 3 --eval-seeds 2 \
    --out-dir "$o/run"
  gutgraph embed --table "$table" --epochs 3 --out-dir "$o/embed"
  gutgraph evaluate --table "$table" --labels "$labels" \
    --checkpoint "$o/run/model.ckpt" --out-dir "$o/evalckpt"
  gutgraph embed --table "$table" --checkpoint "$o/run/model.ckpt" \
    --out-dir "$o/embedckpt"
  # the benchmark workloads' evaluate: cv-small, then cohort-large
  gutgraph evaluate --table "$d/n120/abundance.tsv" --labels "$d/n120/labels.tsv" \
    --epochs 60 --eval-seeds 2 --folds 5 --seed 0 --out-dir "$o/cv-small"
  gutgraph evaluate --table "$d/n960/abundance.tsv" --labels "$d/n960/labels.tsv" \
    --epochs 3 --eval-seeds 1 --folds 5 --seed 0 --out-dir "$o/cohort-large"
  gutgraph train --table "$d/n960/abundance.tsv" --epochs 2 --out-dir "$o/train-n960"
  gutgraph train --table "$d/n120/abundance.tsv" --epochs 5 --embed-dim 16 \
    --gcn-layers 2 --out-dir "$o/dim16-n120"
  gutgraph embed --table "$d/n960/abundance.tsv" --epochs 2 --out-dir "$o/embed-n960"
  gutgraph gradcheck --out-dir "$o/gradcheck" > "$o/gradcheck.txt"
done
diff -rq -x config.json "$d/threads1" "$d/threads2"
