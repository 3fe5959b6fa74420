#!/usr/bin/env bash
# Write the refactor-gate CSVs, and the plot pair of one of them, for the
# ffma package under SRC and print their SHA-1s.  The gate is this script's
# own sweeps plus acceptance criterion 7's desk sweeps, whose tables come
# from this script's checkout (tests/desk_sweeps.py) whatever SRC is.  A
# refactor keeps every file byte-identical (or explains the diff), so
# compare the output of two checkouts:
#
#   scripts/gate_csvs.sh old/src out_old
#   scripts/gate_csvs.sh src out_new
#   diff <(cd out_old && sha1sum *.csv *.dat *.gp) <(cd out_new && sha1sum *.csv *.dat *.gp)
#
# The CSVs hold no wall time, so the files depend on the code alone.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 SRC OUTDIR  (SRC is the directory that holds the ffma package)" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)

ffma() {
    PYTHONPATH="$src" python3 -m ffma.cli -q run "$@"
}

# Acceptance criterion 9's DF command, fixed to its first (single-worker) run.
ffma --system DF --n 96 --k 4 --m 8 --j 2,8 --snr 2,5 --snr-ref esn0 --seed 11 \
    --min-frames 50 --max-frames 300 --min-errors 40 --batch-frames 50 \
    --out "$out/c9_df.csv"

# Every mode on the desk code (600, 300), k=5, m=60, Es/N0 axis.
desk=(--n 600 --k 5 --m 60 --snr-ref esn0 --seed 7)
fixed200=(--j 1,30,60 --min-frames 200 --max-frames 200)
ffma --system SF "${desk[@]}" "${fixed200[@]}" --snr=-1,0.5 --out "$out/desk_sf.csv"
ffma --system DF "${desk[@]}" "${fixed200[@]}" --snr=-1,0 --out "$out/desk_df.csv"
ffma --system PA "${desk[@]}" "${fixed200[@]}" --mu-pas 60 --snr=-12,-10 \
    --out "$out/desk_pa.csv"

# SF on the waterfall, where BP changes many message decisions.
ffma --system SF "${desk[@]}" --j 30,60 --snr 0.25,0.5,0.75 \
    --min-frames 500 --max-frames 500 --out "$out/desk_sf_waterfall.csv"

# DF with J = m (no silent slot) on the default Eb/N0 axis.
ffma --system DF --n 96 --k 4 --m 16 --j 2,16 --snr 2,5 --seed 11 \
    --min-frames 300 --max-frames 300 --out "$out/df96_ebn0.csv"

# ALOHA with repeat counts 12, 4 and 2, through the stop rule; at -4 dB
# every J errs, at 2 and 5 dB J=10 does not within 5000 frames.
ffma --system ALOHA --n 600 --k 5 --snr-ref esn0 --seed 7 --j 10,30,60 --snr=-4,2,5 \
    --min-frames 1000 --max-frames 5000 --min-errors 100 --out "$out/desk_aloha.csv"
# Its plot pair (three J curves of three SNRs each) runs the CSV reader.
PYTHONPATH="$src" python3 -m ffma.cli plot "$out/desk_aloha.csv" > /dev/null

# DF through the 2-worker pool and the stop rule, as desk_sweep runs it.
ffma --system DF "${desk[@]}" --j 30 --snr=-0.5,0 --min-frames 500 --max-frames 1500 \
    --min-errors 150 --workers 2 --out "$out/desk_df_pool.csv"

# ALOHA through the 2-worker pool, in 50-frame batches: each point's
# first 40 batches go out as four grouped tasks, the next point takes the
# slots its predecessor leaves, and the points stop all three ways (100
# errors before 2000 frames, after it, or 5000 frames).
ffma --system ALOHA --n 600 --k 5 --snr-ref esn0 --seed 7 --j 10,30,60 --snr=-4,2,5 \
    --min-frames 2000 --max-frames 5000 --batch-frames 50 --min-errors 100 --workers 2 \
    --out "$out/desk_aloha_pool.csv"

# SF and PA through the 2-worker pool.  The SF points stop all three ways
# (150 errors before 500 frames, after it, or 1500 frames).
ffma --system SF "${desk[@]}" --j 1,30 --snr=-1,0.5 --min-frames 500 --max-frames 1500 \
    --min-errors 150 --workers 2 --out "$out/desk_sf_pool.csv"
ffma --system PA "${desk[@]}" --mu-pas 60 --j 30,60 --snr=-12,-10 --min-frames 400 \
    --max-frames 400 --workers 2 --out "$out/desk_pa_pool.csv"

# DF capped at 9 iterations: at J=60 -0.25 dB most frames leave at the cap.
ffma --system DF "${desk[@]}" --j 30,60 --snr=-0.25,0.75 --min-frames 300 --max-frames 300 \
    --max-iter 9 --out "$out/desk_df_iter9.csv"

# PA capped at 37 iterations: most frames fall into a message cycle, and
# 37 puts the cap off-phase with the cycles they are caught in.
ffma --system PA "${desk[@]}" --mu-pas 60 --j 30,60 --snr=-12,-10 --min-frames 300 \
    --max-frames 300 --max-iter 37 --out "$out/desk_pa_iter37.csv"

# Every FFMA mode at full scale, (6000, 3000) with k=10, m=300 and J=300,
# for 50 frames: transmit's parity counts run in 24 user chunks, and PA's
# 301-level detector window in 22 sample chunks.  Each builds the code
# (about 3 s).
full=(--n 6000 --k 10 --m 300 --j 300 --snr-ref esn0 --seed 7 --min-frames 50
      --max-frames 50 --batch-frames 50)
ffma --system SF "${full[@]}" --snr 0 --out "$out/full_sf.csv"
ffma --system DF "${full[@]}" --snr 0 --out "$out/full_df.csv"
ffma --system PA "${full[@]}" --mu-pas 300 --snr=-18 --out "$out/full_pa.csv"

# Acceptance criterion 7's 13 desk sweeps, through the 2-worker pool.
PYTHONPATH="$src" python3 "$root/tests/desk_sweeps.py" "$out"

(cd "$out" && sha1sum c9_df.csv desk_sf.csv desk_df.csv desk_pa.csv \
    desk_sf_waterfall.csv df96_ebn0.csv desk_aloha.csv desk_df_pool.csv desk_df_iter9.csv \
    desk_pa_iter37.csv desk_aloha_pool.csv desk_sf_pool.csv desk_pa_pool.csv desk_aloha.dat desk_aloha.gp \
    full_sf.csv full_df.csv full_pa.csv \
    {SF,DF}_{1,30,60}.csv PA_{30,60}.csv ALOHA_{30,60}.csv DF_SF_{1,30,60}.csv)
