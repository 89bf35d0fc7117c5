#!/bin/bash
# identity_set.sh TREE OUT [THREADS]: writes the identity set of the etproc tree TREE under OUT,
# run with THREADS BLAS threads (default 2); output bits depend on the thread count
set -u
tree=$(realpath "$1"); out=$2; rm -rf "$out"; mkdir -p "$out"; out=$(realpath "$out")
export OPENBLAS_NUM_THREADS=${3:-2} PYTHONPATH="$tree/src"
etproc() { python3 -m etproc.cli "$@"; }
data="$out/idx"
python3 - "$tree" "$data" <<'PY'
import sys
sys.path.insert(0, sys.argv[1] + "/perfbench"); sys.path.insert(0, sys.argv[1] + "/src")
import idxgen
from etproc import data, harness
idxgen.write_idx_set(sys.argv[2], 0, 300, data, harness.fmnist_mnist_paths(sys.argv[2]))
PY
variants="bnn:model=bnn edl:model=edl enp:model=enp etp:model=etp etp-simplified:model=etp,simplified=true enp-attention:model=enp,aggregation=attention enp-reg:model=enp,beta_reg=0.5 etp-reg:model=etp,beta_reg=0.5"
for task in two-gaussians iris2d fmnist-vs-mnist; do
  case $task in
    two-gaussians) epochs=60; run_seeds=0,7; seed=7; extra="";;
    iris2d) epochs=40; run_seeds=0; seed=0; extra="";;
    fmnist-vs-mnist) epochs=2; run_seeds=0; seed=0; extra="data_dir = $data";;
  esac
  for v in $variants; do
    name=${v%%:*}; keys=${v#*:}; d="$out/$task/$name"; mkdir -p "$d"; cd "$d"
    { echo "task = $task"; echo "epochs = $epochs"; echo "include_runtime = false"
      [ -n "$extra" ] && echo "$extra"; echo "$keys" | tr ',' '\n' | sed 's/=/ = /'; } > cfg
    etproc run --config cfg --seeds $run_seeds --out run.json > run.stdout; c1=$?
    etproc run --config cfg --seeds $run_seeds --format csv --out run.csv > /dev/null; c2=$?
    etproc train --config cfg --seeds $seed --out ckpt.npz > train.stdout; c3=$?
    etproc eval --config cfg --seeds $seed --checkpoint ckpt.npz --out eval.json > /dev/null; c4=$?
    c5=-
    case $name in bnn|etp*) etproc decompose --config cfg --seeds $seed --checkpoint ckpt.npz --out decomp.json > /dev/null; c5=$?;; esac
    echo "$c1 $c2 $c3 $c4 $c5" > codes
    sed -i "s#$d/##g" run.stdout train.stdout
    sed -i "s#$data#DATA_DIR#g" run.json eval.json
    # each array's hash, then one line per metadata entry, top-level and hyper, so that a
    # metadata-only change reads apart from changed weights
    python3 - <<'PY'
import hashlib, json, numpy as np
sha = lambda b: hashlib.sha256(b).hexdigest()
with np.load("ckpt.npz") as z:
    lines = [f"{k} {sha(z[k].tobytes())}" for k in sorted(z.files)]
    meta = json.loads(bytes(z["__meta__"]).decode())
entries = {**meta, **{f"hyper.{k}": v for k, v in meta["hyper"].items()}}
lines += [f"meta.{k} {sha(json.dumps(v, sort_keys=True).encode())}" for k, v in sorted(entries.items())]
open("ckpt.hashes", "w").write("\n".join(lines) + "\n")
PY
    rm cfg ckpt.npz
  done
done
rm -rf "$data"
cd "$out" && find . -type f | sort | xargs sha256sum > "$out.sha256"
