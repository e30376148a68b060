#!/bin/sh
# Modelled `iverilog` for the benchmark: no Verilog is compiled.
#
# Usage (as hdlsmith.edatools.compile_design calls it, from the candidate's
# work directory):  iverilog [flags] -o OUT.vvp MODULE.sv TB.sv
#
# Honours the `// eda:` directive comments of hdlsmith.faketools found in
# MODULE.sv: `compile-error` fails the compile, `warning` prints a warning and
# succeeds. On success OUT.vvp receives one directive per line, which the
# modelled `vvp` reads. Every call sleeps a fixed modelled compile delay of
# 5 ms.
out=
src=
while [ $# -gt 0 ]; do
  case $1 in
    -o) out=$2; shift 2 ;;
    -*) shift ;;
    *) [ -z "$src" ] && src=$1; shift ;;
  esac
done
[ -n "$out" ] && [ -n "$src" ] || { echo "usage: iverilog [flags] -o OUT MODULE TB" >&2; exit 2; }
top=${src%.sv}
error=
warning=
directives=
while IFS= read -r line || [ -n "$line" ]; do
  case $line in
    *//*eda:*)
      d=${line#*eda:}
      d=${d#"${d%%[! ]*}"}
      d=${d%"${d##*[! ]}"}
      case $d in
        compile-error) error=1 ;;
        warning) warning=1 ;;
      esac
      directives="$directives$d
" ;;
  esac
done < "$src"
if [ -n "$error" ]; then
  echo "$top.sv:1: error: scripted compile failure" >&2
  echo "$top.sv:1: syntax error" >&2
  echo "I give up." >&2
  sleep 0.005
  exit 1
fi
printf '%s' "$directives" > "$out" || exit 3
if [ -n "$warning" ]; then
  echo "$top.sv:1: warning: scripted warning" >&2
  echo "$top.sv:1:      : implicit net declaration" >&2
fi
# exec: the delay costs no second fork; sleep exits 0.
exec sleep 0.005
