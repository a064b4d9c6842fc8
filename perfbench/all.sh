#!/usr/bin/env bash
# Runs every workload once untraced and once traced and prints each
# run's result line, prefixed with the workload and the mode. Run from
# the repository root:
#
#   bash perfbench/all.sh [seed] [seconds]
#
# The untraced line carries the bounded end-to-end metrics; the traced
# line carries the per-layer metrics, among them the end-to-end figures
# that are reported but not bounded (apply_p90_ms, read_p50_us,
# read_p99_us, ship_bytes_per_update, disk_write_bytes_per_update,
# error_rate).
set -euo pipefail

seed=${1:-1}
seconds=${2:-10}
here=$(dirname "$0")
for w in cent-rw cent-disk hor-tcp ver-loop; do
	for t in 0 1; do
		line=$(bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" | tail -n 1)
		echo "$w trace=$t $line"
	done
done
