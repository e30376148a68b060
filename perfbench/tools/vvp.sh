#!/bin/sh
# Modelled `vvp` for the benchmark: no simulation is run.
#
# Usage (as hdlsmith.edatools.simulate calls it):  vvp -n ARTIFACT.vvp
#
# ARTIFACT.vvp holds the directives the modelled `iverilog` copied from the
# module. `hang` sleeps until the caller's timeout kills it, `crash` exits 1,
# `silent` prints no summary; otherwise a testbench summary is printed in the
# same shape as hdlsmith.faketools: 50 of 100 samples mismatch by default,
# none with `pass`, and `mismatches=N samples=M` sets the counts. Every call
# sleeps a fixed modelled simulation delay of 5 ms.
artifact=
for arg in "$@"; do
  case $arg in
    -*) ;;
    *) artifact=$arg ;;
  esac
done
[ -f "$artifact" ] || { echo "vvp: cannot open $artifact" >&2; exit 2; }
mismatches=50
samples=100
mode=
while IFS= read -r d || [ -n "$d" ]; do
  case $d in
    hang|crash|silent) mode=$d ;;
    pass) mismatches=0; samples=100 ;;
    *mismatches=*samples=*)
      counts=${d#*mismatches=}
      mismatches=${counts%% *}
      samples=${counts##*samples=}
      samples=${samples%% *} ;;
  esac
done < "$artifact"
# exec: the timeout kills the sleeping process itself, leaving no child
# behind; elsewhere the delay costs no second fork (sleep exits 0).
[ "$mode" = hang ] && exec sleep 3600
case $mode in
  crash) echo "scripted simulator crash" >&2; sleep 0.005; exit 1 ;;
  silent) echo "simulation ran quietly"; exec sleep 0.005 ;;
esac
if [ "$mismatches" -gt 0 ]; then
  echo "Hint: Output 'out' has $mismatches mismatches. First mismatch occurred at time 130."
  echo "Hint: Total mismatched samples is $mismatches out of $samples samples"
  echo
fi
echo "Simulation finished at $((samples * 10)) ps"
echo "Mismatches: $mismatches in $samples samples"
exec sleep 0.005
