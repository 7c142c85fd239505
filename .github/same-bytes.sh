#!/bin/sh
# Same seed, same bytes: runs one list of gutgraph commands under each of
# two environments and fails unless both runs wrote the same bytes.
#
# Usage: same-bytes.sh OUT_DIR ENV_A ENV_B
#
# The list runs under `env ENV_A` into OUT_DIR/a, then under `env ENV_B`
# into OUT_DIR/b, and `diff -rq` compares the two trees. config.json is
# left out, since it echoes its own output directory. ENV_A and ENV_B are
# NAME=VALUE words split on spaces, so no value may hold a space. Run it
# from the repository root:
#
#   same-bytes.sh OUT PYTHONHASHSEED=1 PYTHONHASHSEED=2
#   same-bytes.sh OUT "OPENBLAS_NUM_THREADS=1 VECLIB_MAXIMUM_THREADS=1" \
#                     "OPENBLAS_NUM_THREADS=2 VECLIB_MAXIMUM_THREADS=2"
#   same-bytes.sh OUT PYTHONPATH=../parent/src PYTHONPATH=src
#
# Every command runs as `python3 -m gutgraph.cli`, so PYTHONPATH picks the
# tree; the last use compares a change with its parent checkout. A
# subcommand or flag that one tree lacks fails on that side and stops the
# script: such a command cannot be compared with a tree that lacks it.
#
# Each side also checks that `evaluate --jobs 2` writes the metrics.json of
# `--jobs 1`: the seeds then run in a process pool, whose workers start by
# spawn on macOS.
set -eu
out=$1
env_a=$2
env_b=$3
if [ -e "$out/a" ] || [ -e "$out/b" ]; then
  echo "same-bytes.sh: $out/a or $out/b exists already" >&2
  exit 2
fi

gutgraph() {
  # $side_env is split on purpose: one NAME=VALUE setting per word
  env $side_env python3 -m gutgraph.cli "$@"
}

# The command list. The train shapes reach the GCN stack's other branches:
# with one layer, layer 0's output is the stack's output, and at
# --embed-dim 16 layer 0 runs A (X W). At --clip-norm 1e6 clipping never
# fires, so the optimizer steps on the unscaled gradients. --no-attention
# merges the relations by their mean, --no-adversarial
# --no-two-stage-summary reads each relation out through mean_rows alone,
# and --static-corruption draws one corruption for the whole run. evaluate
# and embed also run from a checkpoint, which reads the saved config
# instead of the flags: from the full model and from the --no-attention
# one, whose relations the checkpoint path merges by their mean. At N=120
# and N=960 the GEMMs are large enough for the BLAS to split them over
# threads.
run_list() {
  o=$1
  gutgraph synth --n-per-class 20 --seed 4 --out-dir "$o/data"
  gutgraph synth --n-per-class 60 --seed 0 --out-dir "$o/n120"
  gutgraph synth --n-per-class 480 --seed 0 --out-dir "$o/n960"
  table="$o/data/abundance.tsv"
  labels="$o/data/labels.tsv"
  gutgraph preprocess --table "$o/n960/abundance.tsv" --out-dir "$o/preprocess"
  gutgraph build-graphs --table "$table" --out-dir "$o/graphs"
  gutgraph train --table "$table" --epochs 3 --out-dir "$o/run"
  gutgraph train --table "$table" --epochs 3 --gcn-layers 1 --out-dir "$o/layers1"
  gutgraph train --table "$table" --epochs 3 --embed-dim 16 --gcn-layers 2 \
    --out-dir "$o/dim16"
  gutgraph train --table "$table" --epochs 3 --clip-norm 1e6 --out-dir "$o/noclip"
  gutgraph train --table "$table" --epochs 3 --no-attention --out-dir "$o/noattention"
  gutgraph train --table "$table" --epochs 3 --no-adversarial --no-two-stage-summary \
    --out-dir "$o/nodisc"
  gutgraph train --table "$table" --epochs 3 --static-corruption \
    --out-dir "$o/static"
  gutgraph evaluate --table "$table" --labels "$labels" --epochs 3 --eval-seeds 2 \
    --out-dir "$o/run"
  gutgraph evaluate --table "$table" --labels "$labels" --epochs 3 --eval-seeds 2 \
    --jobs 2 --out-dir "$o/jobs2"
  cmp "$o/run/metrics.json" "$o/jobs2/metrics.json"
  gutgraph embed --table "$table" --epochs 3 --out-dir "$o/embed"
  gutgraph evaluate --table "$table" --labels "$labels" \
    --checkpoint "$o/run/model.ckpt" --out-dir "$o/evalckpt"
  gutgraph embed --table "$table" --checkpoint "$o/run/model.ckpt" \
    --out-dir "$o/embedckpt"
  gutgraph evaluate --table "$table" --labels "$labels" \
    --checkpoint "$o/noattention/model.ckpt" --out-dir "$o/evalckpt-noattention"
  gutgraph embed --table "$table" --checkpoint "$o/noattention/model.ckpt" \
    --out-dir "$o/embedckpt-noattention"
  # the benchmark workloads' evaluate: cv-small, then cohort-large
  gutgraph evaluate --table "$o/n120/abundance.tsv" --labels "$o/n120/labels.tsv" \
    --epochs 60 --eval-seeds 2 --folds 5 --seed 0 --out-dir "$o/cv-small"
  gutgraph evaluate --table "$o/n960/abundance.tsv" --labels "$o/n960/labels.tsv" \
    --epochs 3 --eval-seeds 1 --folds 5 --seed 0 --out-dir "$o/cohort-large"
  gutgraph train --table "$o/n960/abundance.tsv" --epochs 2 --out-dir "$o/train-n960"
  gutgraph train --table "$o/n120/abundance.tsv" --epochs 5 --embed-dim 16 \
    --gcn-layers 2 --out-dir "$o/dim16-n120"
  gutgraph embed --table "$o/n960/abundance.tsv" --epochs 2 --out-dir "$o/embed-n960"
  gutgraph gradcheck --out-dir "$o/gradcheck" > "$o/gradcheck.txt"
}

side_env=$env_a
run_list "$out/a"
side_env=$env_b
run_list "$out/b"
diff -rq -x config.json "$out/a" "$out/b"
echo "same bytes: $env_a against $env_b"
