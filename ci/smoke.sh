#!/usr/bin/env bash
# Smoke steps for the coilfringe command: exit codes, stderr lines and
# the files each command leaves. Usage:
#
#   bash ci/smoke.sh DIR
#
# DIR is an empty directory for the files. COILFRINGE names the command,
# split on spaces; it defaults to the installed script, and
#   COILFRINGE="python -m coilfringe.cli" PYTHONPATH=src bash ci/smoke.sh DIR
# runs the steps on a source checkout.
set -euo pipefail

dir=$1
err="$dir/err"
coilfringe() { command ${COILFRINGE:-coilfringe} "$@"; }

coilfringe reproduce-paper
coilfringe validate-coil
coilfringe diffract
# without --out, diffract --format json prints its JSON document alone
coilfringe diffract --format json | python -c "import json, sys; json.load(sys.stdin)"
# a stdout that cannot be written exits 2 with one stderr line
status=0; coilfringe reproduce-paper > /dev/full 2> "$err" || status=$?
test "$status" -eq 2
test "$(wc -l < "$err")" -eq 1
status=0; coilfringe diffract >&- 2> "$err" || status=$?
test "$status" -eq 2
test "$(wc -l < "$err")" -eq 1
# the numpy commands; a sweep without a fit removes the fit
# sidecar that an earlier sweep left beside the same --out
echo '{"current_A": 2.5}' > "$dir/s.json"
coilfringe field-map --config "$dir/s.json" --region=-0.01,0.01,-0.01,0.01,-0.01,0.01 --grid 2 --out "$dir/m.csv"
# the column header and 2**3 rows, and the homogeneity sidecar
test "$(grep -vc '^#' "$dir/m.csv")" -eq 9
test -e "$dir/m.csv.homogeneity.json"
# an ideal coil's 8000 rows, formatted in several blocks as they are written
echo '{"coil": {"type": "ideal"}, "current_A": 1.0}' > "$dir/i.json"
coilfringe field-map --config "$dir/i.json" --region=-0.01,0.01,-0.01,0.01,-0.01,0.01 --grid 20,20,20 --out "$dir/i.csv"
test "$(grep -vc '^#' "$dir/i.csv")" -eq 8001
test -e "$dir/i.csv.homogeneity.json"
# a region that starts with a negative number may follow --region after a space
coilfringe field-map --config "$dir/s.json" --region -0.01,0.01,-0.01,0.01,-0.01,0.01 --grid 2 --out "$dir/n.csv"
test "$(grep -vc '^#' "$dir/n.csv")" -eq 9
# a coil of 200000 turns, past the segment limit, maps from the few
# turn copies the bore needs
echo '{"coil": {"turn_density_per_m": 318310.0, "wire_diameter_m": 1e-6}, "current_A": 1.0}' > "$dir/t.json"
coilfringe field-map --config "$dir/t.json" --region=-0.01,0.01,-0.01,0.01,-0.01,0.01 --grid 2 --out "$dir/t.csv"
test "$(grep -vc '^#' "$dir/t.csv")" -eq 9
test -e "$dir/t.csv.homogeneity.json"
# three layers of 420, 420 and 419 turns map in one evaluation
echo '{"coil": {"turn_density_per_m": 2003.0, "layers": 3, "helicity_sign_per_layer": [1, -1, 1]}, "current_A": 2.5}' > "$dir/l.json"
coilfringe field-map --config "$dir/l.json" --region=-0.01,0.01,-0.01,0.01,-0.01,0.01 --grid 2 --out "$dir/l.csv"
test "$(grep -vc '^#' "$dir/l.csv")" -eq 9
test -e "$dir/l.csv.homogeneity.json"
# a box whose radius is below R1 = 1e10 m but rounds to it in the log
# copies every turn
echo '{"coil": {"R1_m": 1e10, "R2_m": 2e10, "L_m": 1e12, "turn_density_per_m": 1e-9, "layers": 1, "helicity_sign_per_layer": [1]}, "current_A": 1}' > "$dir/r.json"
out=$(coilfringe field-map --config "$dir/r.json" --region=9999999998.999998,9999999999.999998,-0.001,0.001,-1,1 --grid 2 --out "$dir/r.csv")
test "$(echo "$out" | wc -l)" -eq 1
# a winding whose field is inf - inf in floats exits 1 with one stderr
# line and no file
echo '{"coil": {"R2_m": 1e155}, "current_A": 1}' > "$dir/h.json"
status=0; coilfringe field-map --config "$dir/h.json" --region=-0.01,0.01,-0.01,0.01,-0.01,0.01 --grid 2 --out "$dir/h.csv" 2> "$err" || status=$?
test "$status" -eq 1
test "$(wc -l < "$err")" -eq 1
test ! -e "$dir/h.csv"
test ! -e "$dir/h.csv.homogeneity.json"
# at 1e19 turns a metre the turn index k*M of a copy passes 2**63; the
# copies stay evenly spaced, so the bore stays uniform
echo '{"coil": {"turn_density_per_m": 1e19, "wire_diameter_m": 1e-21}, "current_A": 1}' > "$dir/d.json"
coilfringe field-map --config "$dir/d.json" --region=-0.01,0.01,-0.01,0.01,-0.01,0.01 --grid 2 --out "$dir/d.csv"
python -c "import json, sys; assert float(json.load(open(sys.argv[1]))['max_rel_deviation']) < 1e-6" "$dir/d.csv.homogeneity.json"
coilfringe sweep --from -1 --to 1 --step 0.5 --out "$dir/sweep.csv"
test -e "$dir/sweep.csv.fit.json"
# currents of 0, 1e-13 and 2e-13 A move the inverse interfringe by a few
# rounding steps, which still determine a fit
coilfringe sweep --from 0 --to 2e-13 --step 1e-13 --out "$dir/tiny.csv"
test -e "$dir/tiny.csv.fit.json"
coilfringe sweep --variable voltage --from 1000 --to 2000 --step 500 --out "$dir/sweep.csv"
test ! -e "$dir/sweep.csv.fit.json"
# a negative value in exponent form is a value, not an unknown option
coilfringe sweep --from -1e-05 --to 1e-05 --step 1e-06 --out "$dir/small.csv"
# a stale sidecar that cannot be removed fails the run before
# stdout is written, and the CSV it wrote is removed again
mkdir "$dir/v.csv.fit.json"
status=0; out=$(coilfringe sweep --variable voltage --from 1000 --to 2000 --step 500 --out "$dir/v.csv" 2> "$err") || status=$?
test "$status" -eq 2
test -z "$out"
test "$(wc -l < "$err")" -eq 1
test ! -e "$dir/v.csv"
# a scenario nested too deeply to parse is a configuration error
python -c "print('[' * 100000 + ']' * 100000)" > "$dir/deep.json"
status=0; coilfringe validate-coil --config "$dir/deep.json" 2> "$err" || status=$?
test "$status" -eq 2
test "$(wc -l < "$err")" -eq 1
# turns that overlap and are past the segment limit: the geometry is
# checked first, so the coil is reported NOT constructible (exit 1)
echo '{"coil": {"turn_density_per_m": 400000.0}}' > "$dir/o.json"
status=0; out=$(coilfringe validate-coil --config "$dir/o.json") || status=$?
test "$status" -eq 1
[[ $(echo "$out" | head -n 1) == "winding NOT constructible: turns overlap"* ]]
